#include "util/cli_flags.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

namespace minoan {
namespace cli {

namespace {

std::string FormatBound(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

}  // namespace

Result<uint64_t> ParseUint(std::string_view what, std::string_view text,
                           uint64_t max) {
  uint64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end || v > max) {
    return Status::InvalidArgument(std::string(what) +
                                   " must be an integer in [0, " +
                                   std::to_string(max) + "], got \"" +
                                   std::string(text) + "\"");
  }
  return v;
}

Result<double> ParseDouble(std::string_view what, std::string_view text,
                           double min, double max) {
  double v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end || !(v >= min && v <= max)) {
    return Status::InvalidArgument(
        std::string(what) + " must be a number in [" + FormatBound(min) +
        ", " + FormatBound(max) + "], got \"" + std::string(text) + "\"");
  }
  return v;
}

Flags::Flags(int argc, char** argv, int first) {
  for (int i = first; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc &&
               std::string_view(argv[i + 1]).rfind("--", 0) != 0) {
      // Everything up to the next --flag is this flag's value; a single
      // leading dash is allowed so negative numbers parse as values.
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";
    }
  }
}

std::string Flags::Get(const std::string& name,
                       const std::string& fallback) const {
  auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

double Flags::GetDouble(const std::string& name, double fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const Result<double> v = ParseDouble(name, it->second);
  if (!v.ok()) {
    std::fprintf(stderr, "error: --%s expects a number, got \"%s\"\n",
                 name.c_str(), it->second.c_str());
    std::exit(2);
  }
  return *v;
}

uint64_t Flags::GetInt(const std::string& name, uint64_t fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const Result<uint64_t> v = ParseUint(name, it->second);
  if (!v.ok()) {
    std::fprintf(stderr,
                 "error: --%s expects a non-negative integer, got \"%s\"\n",
                 name.c_str(), it->second.c_str());
    std::exit(2);
  }
  return *v;
}

uint64_t Flags::GetByteSize(const std::string& name, uint64_t fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string& raw = it->second;
  uint64_t v = 0;
  const char* begin = raw.data();
  const char* end = begin + raw.size();
  const auto [ptr, ec] = std::from_chars(begin, end, v);
  uint64_t shift = 0;
  bool bad_suffix = false;
  std::string suffix(ptr, end);
  for (char& c : suffix) c = static_cast<char>(std::tolower(c));
  if (suffix == "k" || suffix == "kb") {
    shift = 10;
  } else if (suffix == "m" || suffix == "mb") {
    shift = 20;
  } else if (suffix == "g" || suffix == "gb") {
    shift = 30;
  } else if (!suffix.empty()) {
    bad_suffix = true;
  }
  if (ec != std::errc() || ptr == begin || bad_suffix ||
      (shift > 0 && v > (uint64_t{1} << (63 - shift)))) {
    std::fprintf(stderr,
                 "error: --%s expects a byte size like 65536, 64k or 1g, "
                 "got \"%s\"\n",
                 name.c_str(), raw.c_str());
    std::exit(2);
  }
  return v << shift;
}

std::vector<std::string> Flags::UnknownFlags(
    std::initializer_list<std::string_view> allowed) const {
  std::vector<std::string> unknown;
  for (const auto& [name, value] : values_) {
    if (std::find(allowed.begin(), allowed.end(), name) == allowed.end()) {
      unknown.push_back(name);
    }
  }
  return unknown;  // values_ is a sorted map — order is already stable
}

}  // namespace cli
}  // namespace minoan
