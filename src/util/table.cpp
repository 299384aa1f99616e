#include "util/table.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace swarmfuzz::util {
namespace {

bool looks_numeric(const std::string& cell) {
  if (cell.empty()) return false;
  int digits = 0;
  for (const char c : cell) {
    if (std::isdigit(static_cast<unsigned char>(c))) ++digits;
    else if (c != '.' && c != '-' && c != '+' && c != '%' && c != 'e' && c != 'E') {
      return false;
    }
  }
  return digits > 0;
}

std::string repeat(char c, int n) { return std::string(static_cast<size_t>(std::max(0, n)), c); }

}  // namespace

TextTable::TextTable(std::vector<std::string> header) : header_(std::move(header)) {
  if (header_.empty()) throw std::invalid_argument("TextTable: empty header");
}

void TextTable::add_row(std::vector<std::string> row) {
  if (row.size() > header_.size()) {
    throw std::invalid_argument("TextTable: row wider than header");
  }
  row.resize(header_.size());
  rows_.push_back(std::move(row));
}

std::string TextTable::render(const std::string& title) const {
  std::vector<size_t> widths(header_.size());
  for (size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) widths[c] = std::max(widths[c], row[c].size());
  }

  std::ostringstream out;
  if (!title.empty()) out << title << '\n';

  const auto rule = [&] {
    out << '+';
    for (const size_t w : widths) out << repeat('-', static_cast<int>(w) + 2) << '+';
    out << '\n';
  };
  const auto emit_row = [&](const std::vector<std::string>& row, bool align_right) {
    out << '|';
    for (size_t c = 0; c < row.size(); ++c) {
      const int pad = static_cast<int>(widths[c] - row[c].size());
      const bool right = align_right && looks_numeric(row[c]);
      out << ' ' << (right ? repeat(' ', pad) + row[c] : row[c] + repeat(' ', pad)) << ' ' << '|';
    }
    out << '\n';
  };

  rule();
  emit_row(header_, /*align_right=*/false);
  rule();
  for (const auto& row : rows_) emit_row(row, /*align_right=*/true);
  rule();
  return out.str();
}

std::string render_bar_chart(
    const std::string& title,
    const std::vector<std::pair<std::string, double>>& series, int max_width) {
  double max_value = 0.0;
  size_t label_width = 0;
  for (const auto& [label, value] : series) {
    max_value = std::max(max_value, value);
    label_width = std::max(label_width, label.size());
  }
  std::ostringstream out;
  if (!title.empty()) out << title << '\n';
  for (const auto& [label, value] : series) {
    const int bar = max_value > 0.0
        ? static_cast<int>(std::lround(value / max_value * max_width))
        : 0;
    out << "  " << label << repeat(' ', static_cast<int>(label_width - label.size()))
        << " | " << repeat('#', bar) << ' ' << format_double(value) << '\n';
  }
  return out.str();
}

std::string render_xy_series(const std::string& title, const std::string& x_name,
                             const std::string& y_name,
                             const std::vector<std::pair<double, double>>& points,
                             int max_width) {
  std::ostringstream out;
  if (!title.empty()) out << title << '\n';
  out << "  " << x_name << " -> " << y_name << '\n';
  for (const auto& [x, y] : points) {
    const double clamped = std::clamp(y, 0.0, 1.0);
    const int bar = static_cast<int>(std::lround(clamped * max_width));
    char xbuf[32];
    std::snprintf(xbuf, sizeof xbuf, "%8.2f", x);
    out << "  " << xbuf << " | " << repeat('#', bar) << ' '
        << format_double(y, 3) << '\n';
  }
  return out.str();
}

std::string format_double(double value, int precision) {
  if (std::isnan(value)) return "n/a";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, value);
  return buf;
}

std::string format_percent(double rate, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f%%", precision, rate * 100.0);
  return buf;
}

}  // namespace swarmfuzz::util
