// Copyright 2026 The MinoanER Authors.
// Console table rendering for the experiment harnesses.
//
// Every bench binary prints paper-style tables through this class so the
// output is uniformly aligned and machine-greppable.

#ifndef MINOAN_UTIL_TABLE_H_
#define MINOAN_UTIL_TABLE_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace minoan {

/// A rectangular table of string cells with a header row.
class Table {
 public:
  /// Creates a table with the given column headers.
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  /// Starts a new row; subsequent Cell() calls fill it left to right.
  Table& AddRow() {
    rows_.emplace_back();
    return *this;
  }

  Table& Cell(std::string value) {
    rows_.back().push_back(std::move(value));
    return *this;
  }
  Table& Cell(const char* value) { return Cell(std::string(value)); }
  Table& Cell(std::string_view value) { return Cell(std::string(value)); }
  Table& Cell(int64_t value) { return Cell(std::to_string(value)); }
  Table& Cell(uint64_t value) { return Cell(std::to_string(value)); }
  Table& Cell(int value) { return Cell(static_cast<int64_t>(value)); }
  Table& Cell(unsigned value) { return Cell(static_cast<uint64_t>(value)); }

  /// Formats a double with `digits` decimals.
  Table& Cell(double value, int digits = 4);

  /// Writes an ASCII-art aligned rendering (pipe-separated, padded).
  void Print(std::ostream& os) const;

  size_t num_rows() const { return rows_.size(); }
  size_t num_columns() const { return headers_.size(); }
  const std::vector<std::string>& headers() const { return headers_; }
  const std::vector<std::string>& row(size_t i) const { return rows_[i]; }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Convenience: "12.3%"-style percent formatting.
std::string FormatPercent(double fraction, int digits = 1);

}  // namespace minoan

#endif  // MINOAN_UTIL_TABLE_H_
