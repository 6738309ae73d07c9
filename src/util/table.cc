#include "util/table.h"

#include <algorithm>
#include <iomanip>
#include <sstream>

namespace minoan {

Table& Table::Cell(double value, int digits) {
  std::ostringstream oss;
  oss << std::fixed << std::setprecision(digits) << value;
  return Cell(oss.str());
}

void Table::Print(std::ostream& os) const {
  std::vector<size_t> widths(headers_.size(), 0);
  for (size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& cells) {
    os << "|";
    for (size_t c = 0; c < widths.size(); ++c) {
      const std::string& v = c < cells.size() ? cells[c] : std::string();
      os << " " << v << std::string(widths[c] - v.size(), ' ') << " |";
    }
    os << "\n";
  };
  print_row(headers_);
  os << "|";
  for (size_t c = 0; c < widths.size(); ++c) {
    os << std::string(widths[c] + 2, '-') << "|";
  }
  os << "\n";
  for (const auto& row : rows_) print_row(row);
}

std::string FormatPercent(double fraction, int digits) {
  std::ostringstream oss;
  oss << std::fixed << std::setprecision(digits) << fraction * 100.0 << "%";
  return oss.str();
}

}  // namespace minoan
