// ASCII table and text-figure rendering for the benchmark harness.
//
// The paper's evaluation is presented as tables (Tables I-III) and plots
// (Figs. 6-7). Benchmarks render the same rows/series as aligned ASCII so
// they can be diffed against EXPERIMENTS.md.
#pragma once

#include <string>
#include <vector>

namespace swarmfuzz::util {

// A rectangular table with a header row; cells are free-form strings.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  // Appends a row. Rows shorter than the header are padded with "";
  // longer rows throw std::invalid_argument.
  void add_row(std::vector<std::string> row);

  [[nodiscard]] int num_rows() const noexcept { return static_cast<int>(rows_.size()); }
  [[nodiscard]] int num_cols() const noexcept { return static_cast<int>(header_.size()); }

  // Renders with a title line, +-separators and right-aligned numeric cells.
  [[nodiscard]] std::string render(const std::string& title = "") const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

// Renders a simple horizontal bar chart: one line per (label, value).
// Used for ASCII renderings of the paper's figures.
[[nodiscard]] std::string render_bar_chart(
    const std::string& title,
    const std::vector<std::pair<std::string, double>>& series,
    int max_width = 50);

// Renders an x/y series as "x -> y" rows plus a sparkline-style bar per row.
// `y` values are expected in [0, 1] (rates); values outside are clamped for
// the bar but printed exactly.
[[nodiscard]] std::string render_xy_series(
    const std::string& title, const std::string& x_name,
    const std::string& y_name,
    const std::vector<std::pair<double, double>>& points, int max_width = 40);

// Formats a double with fixed precision (helper shared by benches). NaN —
// an undefined statistic, e.g. the average over zero successes — renders as
// "n/a".
[[nodiscard]] std::string format_double(double value, int precision = 2);

// Formats a rate in [0,1] as a percentage string like "48.8%".
[[nodiscard]] std::string format_percent(double rate, int precision = 1);

}  // namespace swarmfuzz::util
