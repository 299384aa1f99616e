#include "util/table.h"

#include <gtest/gtest.h>

#include <limits>

namespace swarmfuzz::util {
namespace {

TEST(TextTable, RendersHeaderAndRows) {
  TextTable table({"name", "value"});
  table.add_row({"alpha", "1"});
  table.add_row({"beta", "22"});
  const std::string out = table.render("title");
  EXPECT_NE(out.find("title"), std::string::npos);
  EXPECT_NE(out.find("| name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("22"), std::string::npos);
  EXPECT_EQ(table.num_rows(), 2);
  EXPECT_EQ(table.num_cols(), 2);
}

TEST(TextTable, ShortRowsArePadded) {
  TextTable table({"a", "b", "c"});
  table.add_row({"only"});
  EXPECT_EQ(table.num_rows(), 1);
  EXPECT_FALSE(table.render().empty());
}

TEST(TextTable, WideRowsThrow) {
  TextTable table({"a"});
  EXPECT_THROW(table.add_row({"1", "2"}), std::invalid_argument);
}

TEST(TextTable, EmptyHeaderThrows) {
  EXPECT_THROW(TextTable(std::vector<std::string>{}), std::invalid_argument);
}

TEST(TextTable, NumericCellsRightAligned) {
  TextTable table({"metric", "value"});
  table.add_row({"rate", "5%"});
  const std::string out = table.render();
  // "5%" is numeric-ish and shorter than "value": right-aligned in-column.
  EXPECT_NE(out.find("    5% |"), std::string::npos);
}

TEST(BarChart, ScalesToMaxValue) {
  const std::string out = render_bar_chart(
      "chart", {{"full", 10.0}, {"half", 5.0}, {"zero", 0.0}}, 10);
  EXPECT_NE(out.find("##########"), std::string::npos);
  EXPECT_NE(out.find("#####"), std::string::npos);
  EXPECT_NE(out.find("zero"), std::string::npos);
}

TEST(BarChart, AllZeroSeriesRendersWithoutBars) {
  const std::string out = render_bar_chart("z", {{"a", 0.0}, {"b", 0.0}});
  EXPECT_EQ(out.find('#'), std::string::npos);
}

TEST(XySeries, RendersPointsAndClampsBars) {
  const std::string out =
      render_xy_series("fig", "x", "rate", {{1.0, 0.5}, {2.0, 1.5}}, 10);
  EXPECT_NE(out.find("x -> rate"), std::string::npos);
  // y=1.5 clamps to full width for the bar, but prints exactly.
  EXPECT_NE(out.find("1.500"), std::string::npos);
}

TEST(Formatting, Percent) {
  EXPECT_EQ(format_percent(0.488), "48.8%");
  EXPECT_EQ(format_percent(0.5, 0), "50%");
}

TEST(Formatting, Double) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(2.0, 0), "2");
}

TEST(Formatting, DoubleRendersNanAsNotApplicable) {
  EXPECT_EQ(format_double(std::numeric_limits<double>::quiet_NaN()), "n/a");
  EXPECT_EQ(format_double(-std::numeric_limits<double>::quiet_NaN(), 0), "n/a");
  EXPECT_EQ(format_double(std::numeric_limits<double>::infinity()), "inf");
}

}  // namespace
}  // namespace swarmfuzz::util
